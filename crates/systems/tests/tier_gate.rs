//! The per-event tier gate of `SessionPipeline::apply`: an event whose
//! coarse screen is clean and whose propagation rules are clean-to-clean
//! no-ops skips the precise tier. These tests hold the gate to the full
//! path it replaces, byte for byte, and make sure it never trusts a
//! coarse answer that an injected soft error may have cleared.

use latch_core::config::LatchConfig;
use latch_core::unit::{CoarseStructure, LatchUnit};
use latch_dift::engine::DiftEngine;
use latch_dift::policy::{SecurityViolation, SinkKind, SourceKind};
use latch_dift::prop::PropRule;
use latch_sim::event::{
    CtrlCheck, Event, EventSource, MemAccess, MemAccessKind, RegsUsed, SinkAccess, SourceInput,
};
use latch_sim::machine::apply_event_dift;
use latch_systems::platch::ACTIVITY_WINDOW;
use latch_systems::session::{SessionPipeline, SessionReport};
use latch_workloads::all_profiles;
use proptest::prelude::*;
use proptest::strategy::TestRng;
use rand::Rng;

/// The full path every event took before the gate, built from public
/// parts: the coarse screen, `apply_event_dift`, the coarse taint
/// write and clear-scan, an unconditional TRF reload, and the scrub
/// cadence.
struct FullPath {
    latch: LatchUnit,
    engine: DiftEngine,
    window_left: u64,
    applied: u64,
    selected: u64,
    cycles: u64,
    scrub_interval: u64,
    violations: Vec<(u64, SecurityViolation)>,
}

impl FullPath {
    fn new(scrub_interval: u64) -> Self {
        Self {
            latch: LatchUnit::new(LatchConfig::s_latch().build().unwrap()),
            engine: DiftEngine::new(),
            window_left: 0,
            applied: 0,
            selected: 0,
            cycles: 0,
            scrub_interval,
            violations: Vec::new(),
        }
    }

    fn apply(&mut self, ev: &Event) -> bool {
        let index = self.applied;
        let mut penalty = 0u64;
        let mut hit = ev.regs.reads().any(|r| self.latch.reg_tainted(r as usize))
            || ev
                .regs
                .written
                .is_some_and(|w| self.latch.reg_tainted(w as usize));
        if let Some(mem) = ev.mem {
            let out = match mem.kind {
                MemAccessKind::Read => self.latch.check_read(mem.addr, mem.len),
                MemAccessKind::Write => self.latch.check_write(mem.addr, mem.len),
            };
            hit |= out.coarse_tainted;
            penalty += out.penalty_cycles;
        }
        hit |= ev.source.is_some() || ev.ctrl.is_some() || ev.sink.is_some();
        let step = apply_event_dift(&mut self.engine, ev);
        if let Some(v) = step.violation {
            self.violations.push((index, v));
        }
        if let Some((addr, len, tainted)) = step.mem_taint_write {
            penalty += self.latch.write_taint(addr, len, tainted).penalty_cycles;
            if !tainted {
                self.latch.clear_scan(self.engine.shadow());
            }
        }
        let packed = self.engine.regs().to_packed();
        self.latch.trf_mut().load_packed(packed);
        if self.scrub_interval > 0 && (index + 1).is_multiple_of(self.scrub_interval) {
            self.latch.scrub(self.engine.shadow());
        }
        let selected = if hit || step.touched_taint {
            self.window_left = ACTIVITY_WINDOW;
            true
        } else if self.window_left > 0 {
            self.window_left -= 1;
            true
        } else {
            false
        };
        self.applied += 1;
        if selected {
            self.selected += 1;
        }
        self.cycles += 1 + penalty;
        selected
    }

    fn report(&self) -> SessionReport {
        SessionReport {
            events: self.applied,
            selected: self.selected,
            cycles: self.cycles,
            tainted_bytes: self.engine.shadow().tainted_bytes(),
            pages_ever_tainted: self.engine.shadow().pages_ever_tainted() as u64,
            violations: self.violations.clone(),
            checks: self.latch.stats().checks,
            scrub: self.latch.stats().scrub,
            dift: *self.engine.stats(),
        }
    }
}

/// Feeds `batches` through the gated pipeline and the full path, and
/// compares both tiers' snapshots, the per-event selection and the
/// report after every batch.
fn assert_gate_matches_full_path(batches: &[Vec<Event>], scrub_interval: u64, what: &str) {
    let mut gated = SessionPipeline::new(scrub_interval);
    let mut full = FullPath::new(scrub_interval);
    for (b, batch) in batches.iter().enumerate() {
        let got: Vec<bool> = batch.iter().map(|ev| gated.apply(ev)).collect();
        let want: Vec<bool> = batch.iter().map(|ev| full.apply(ev)).collect();
        assert_eq!(got, want, "{what}: selection, batch {b}");
        assert!(
            gated.latch().to_snapshot() == full.latch.to_snapshot(),
            "{what}: coarse tier, batch {b}"
        );
        assert!(
            gated.engine().to_snapshot() == full.engine.to_snapshot(),
            "{what}: precise tier, batch {b}"
        );
        assert_eq!(
            gated.report().encode(),
            full.report().encode(),
            "{what}: report, batch {b}"
        );
    }
}

fn event() -> Event {
    Event::empty(0x40)
}

fn read(addr: u32, len: u32) -> Option<MemAccess> {
    Some(MemAccess {
        addr,
        len,
        kind: MemAccessKind::Read,
    })
}

/// Taints `[0x1000, 0x1010)` from an untrusted socket.
fn taint_source() -> Event {
    Event {
        source: Some(SourceInput {
            kind: SourceKind::Socket,
            addr: 0x1000,
            len: 16,
            trusted: false,
        }),
        ..event()
    }
}

/// `r1 = [0x1000..0x1004)` with the matching memory operand.
fn load_tainted_word() -> Event {
    Event {
        prop: Some(PropRule::Load {
            dst: 1,
            addr: 0x1000,
            len: 4,
        }),
        mem: read(0x1000, 4),
        regs: RegsUsed::new([None, None], Some(1)),
        ..event()
    }
}

/// A spurious clear of the tainted domain, in both the resident CTC
/// line and the CTT word behind it, makes the screen pass the load
/// clean. The gate must not trust that answer: until a scrub repairs
/// the flip, the load takes the precise tier and `r1` picks up the
/// taint — also after a snapshot round trip between flip and load,
/// where only the stale parity is left to tell.
#[test]
fn spurious_clear_never_drops_precise_taint() {
    for round_trip in [false, true] {
        let mut pipe = SessionPipeline::new(0);
        pipe.apply(&taint_source());
        let bit = pipe.latch().geometry().bit_of(0x1000);
        for target in [CoarseStructure::Ctc, CoarseStructure::Ctt] {
            assert!(
                pipe.latch_mut().corrupt_coarse(target, 0, bit, false),
                "{target:?}"
            );
        }
        if round_trip {
            pipe = SessionPipeline::from_snapshot(&pipe.to_snapshot()).unwrap();
        }
        pipe.apply(&load_tainted_word());
        assert!(
            pipe.engine().regs().is_tainted(1),
            "round trip {round_trip}: the load lost its taint behind a spurious clear"
        );
    }
}

/// Untrusted socket bytes at `[0x1040, 0x1044)`: the domain after
/// `taint_source`'s, in the same CTT word and CTC line.
fn taint_next_domain() -> Event {
    Event {
        source: Some(SourceInput {
            kind: SourceKind::Socket,
            addr: 0x1040,
            len: 4,
            trusted: false,
        }),
        ..event()
    }
}

/// A legitimate taint write to a CTC line that holds a spurious clear
/// toggles the line's parity by the bit it sets, so the flip stays
/// visible and the scrub that follows repairs the line; the load
/// behind the flip keeps its taint.
#[test]
fn a_write_over_a_flip_leaves_it_to_the_scrub() {
    let mut pipe = SessionPipeline::new(3);
    pipe.apply(&taint_source());
    let bit = pipe.latch().geometry().bit_of(0x1000);
    assert!(pipe
        .latch_mut()
        .corrupt_coarse(CoarseStructure::Ctc, 0, bit, false));
    pipe.apply(&taint_next_domain());
    pipe.apply(&event());
    let scrub = pipe.report().scrub;
    assert_eq!(
        (
            scrub.scrubs,
            scrub.ctt_words_repaired,
            scrub.ctc_lines_repaired
        ),
        (1, 0, 1)
    );
    pipe.apply(&load_tainted_word());
    assert!(
        pipe.engine().regs().is_tainted(1),
        "the load lost its taint behind a flip a write reached"
    );
}

/// The same sequence with a snapshot round trip between the scrub and
/// the load: the restored unit sees the scrub's repair and stays off
/// the gate, and the load keeps its taint. When a write recomputed the
/// line's parity over the flip, the scrub repaired nothing, the
/// restore trusted the coarse state, and the gate skipped the load.
#[test]
fn a_restore_after_a_write_over_a_flip_is_untrusted() {
    let mut pipe = SessionPipeline::new(3);
    pipe.apply(&taint_source());
    let bit = pipe.latch().geometry().bit_of(0x1000);
    assert!(pipe
        .latch_mut()
        .corrupt_coarse(CoarseStructure::Ctc, 0, bit, false));
    pipe.apply(&taint_next_domain());
    pipe.apply(&event());
    assert_eq!(pipe.report().scrub.scrubs, 1);
    let mut pipe = SessionPipeline::from_snapshot(&pipe.to_snapshot()).unwrap();
    assert!(
        !pipe.latch().coarse_trusted(),
        "the restore trusts a flipped unit"
    );
    pipe.apply(&load_tainted_word());
    assert!(
        pipe.engine().regs().is_tainted(1),
        "the load lost its taint behind a flip a write reached"
    );
}

/// The CTC flip at `0x1000` that a write reached, now with a flip in
/// a distant tainted region's CTT word as well; the scrub repairs
/// both. A repair vouches for nothing: the mark stays, and the load
/// behind the flip still takes the precise tier — also after a
/// snapshot round trip, where the scrub's repair count is left to
/// tell.
#[test]
fn a_scrub_that_repairs_another_flip_keeps_the_full_path() {
    for round_trip in [false, true] {
        let mut pipe = SessionPipeline::new(4);
        pipe.apply(&taint_source());
        let bit = pipe.latch().geometry().bit_of(0x1000);
        assert!(pipe
            .latch_mut()
            .corrupt_coarse(CoarseStructure::Ctc, 0, bit, false));
        pipe.apply(&taint_next_domain());
        pipe.apply(&Event {
            source: Some(SourceInput {
                kind: SourceKind::Socket,
                addr: 0x0080_0000,
                len: 16,
                trusted: false,
            }),
            ..event()
        });
        // CTT words sort by key: slot 1 is the distant region's word.
        let far = pipe.latch().geometry().bit_of(0x0080_0000);
        assert!(pipe
            .latch_mut()
            .corrupt_coarse(CoarseStructure::Ctt, 1, far, false));
        pipe.apply(&event());
        let scrub = pipe.report().scrub;
        assert_eq!(scrub.scrubs, 1);
        assert!(scrub.ctt_words_repaired + scrub.ctc_lines_repaired >= 1);
        if round_trip {
            pipe = SessionPipeline::from_snapshot(&pipe.to_snapshot()).unwrap();
        }
        pipe.apply(&load_tainted_word());
        assert!(
            pipe.engine().regs().is_tainted(1),
            "round trip {round_trip}: the load lost its taint behind a flip a write reached"
        );
    }
}

/// Rules whose bytes run past the memory operand, into a tainted
/// domain the screen never looked at: a constant store that clears
/// the tail, a clean store over it, and a load of it, each with only
/// the clean head screened; then the same at the top of the address
/// space.
#[test]
fn rules_that_outrun_the_screened_range_take_the_full_path() {
    let source = |addr: u32, len: u32| Event {
        source: Some(SourceInput {
            kind: SourceKind::File,
            addr,
            len,
            trusted: false,
        }),
        ..event()
    };
    let with = |prop: PropRule, addr: u32, len: u32| Event {
        prop: Some(prop),
        mem: Some(MemAccess {
            addr,
            len,
            kind: MemAccessKind::Write,
        }),
        ..event()
    };
    let batch = vec![
        source(0x1040, 8),
        with(
            PropRule::StoreImm {
                addr: 0x103C,
                len: 12,
            },
            0x103C,
            4,
        ),
        source(0x1040, 8),
        with(
            PropRule::Store {
                src: 3,
                addr: 0x103E,
                len: 4,
            },
            0x103E,
            2,
        ),
        source(0x1040, 8),
        with(
            PropRule::Load {
                dst: 2,
                addr: 0x103E,
                len: 4,
            },
            0x103E,
            2,
        ),
        source(0xFFFF_FFF8, 8),
        with(
            PropRule::Load {
                dst: 4,
                addr: 0xFFFF_FFF6,
                len: 4,
            },
            0xFFFF_FFF6,
            2,
        ),
        with(
            PropRule::StoreImm {
                addr: 0xFFFF_FFF0,
                len: 64,
            },
            0xFFFF_FFF0,
            8,
        ),
    ];
    let batches: Vec<Vec<Event>> = batch.into_iter().map(|ev| vec![ev]).collect();
    assert_gate_matches_full_path(&batches, 0, "outrun");
}

/// The workload profiles, two seeds each, against the full path at
/// every 2048-event boundary.
#[test]
fn gate_matches_the_full_path_on_every_profile() {
    for profile in all_profiles() {
        for seed in [1, 2] {
            let mut src = profile.stream(seed, 8_192);
            let mut events = Vec::new();
            while let Some(ev) = src.next_event() {
                events.push(ev);
            }
            let batches: Vec<Vec<Event>> = events.chunks(2_048).map(<[Event]>::to_vec).collect();
            assert_gate_matches_full_path(&batches, 512, &format!("{} seed {seed}", profile.name));
        }
    }
}

/// Addresses that collide: small windows inside one taint domain,
/// across a domain boundary and across a page boundary, and the top of
/// the address space.
fn addr(rng: &mut TestRng) -> u32 {
    match rng.gen_range(0..5u8) {
        0 => 0x1000 + rng.gen_range(0..48u32),
        1 => 0x1030 + rng.gen_range(0..32u32),
        2 => 0x1FF0 + rng.gen_range(0..32u32),
        3 => 0xFFFF_FFFF - rng.gen_range(0..12u32),
        _ => rng.gen_range(0..0x3000u32),
    }
}

fn reg(rng: &mut TestRng) -> usize {
    rng.gen_range(0..16usize)
}

fn len(rng: &mut TestRng) -> u32 {
    match rng.gen_range(0..6u8) {
        0 => 0,
        1..=3 => [1, 2, 4][rng.gen_range(0..3usize)],
        _ => rng.gen_range(5..40u32),
    }
}

fn rule(rng: &mut TestRng) -> PropRule {
    match rng.gen_range(0..7u8) {
        0 => PropRule::BinaryAlu {
            dst: reg(rng),
            src1: reg(rng),
            src2: reg(rng),
        },
        1 => PropRule::UnaryAlu {
            dst: reg(rng),
            src: reg(rng),
        },
        2 => PropRule::Mov {
            dst: reg(rng),
            src: reg(rng),
        },
        3 => PropRule::ClearDst { dst: reg(rng) },
        4 => PropRule::Load {
            dst: reg(rng),
            addr: addr(rng),
            len: len(rng),
        },
        5 => PropRule::Store {
            src: reg(rng),
            addr: addr(rng),
            len: len(rng),
        },
        _ => PropRule::StoreImm {
            addr: addr(rng),
            len: len(rng),
        },
    }
}

/// The memory range a rule addresses, if it addresses one.
fn rule_range(rule: PropRule) -> Option<(u32, u32)> {
    match rule {
        PropRule::Load { addr, len, .. }
        | PropRule::Store { addr, len, .. }
        | PropRule::StoreImm { addr, len } => Some((addr, len)),
        _ => None,
    }
}

/// The registers a rule names, as `(reads, written)`.
fn rule_regs(rule: PropRule) -> RegsUsed {
    let r = |x: usize| Some(x as u8);
    match rule {
        PropRule::BinaryAlu { dst, src1, src2 } => RegsUsed::new([r(src1), r(src2)], r(dst)),
        PropRule::UnaryAlu { dst, src } | PropRule::Mov { dst, src } => {
            RegsUsed::new([r(src), None], r(dst))
        }
        PropRule::ClearDst { dst } | PropRule::Load { dst, .. } => {
            RegsUsed::new([None, None], r(dst))
        }
        PropRule::Store { src, .. } => RegsUsed::new([r(src), None], None),
        PropRule::StoreImm { .. } => RegsUsed::default(),
    }
}

/// A memory operand for `rule`: the rule's own range, one that misses
/// it, one that covers only part of it or a prefix of it, one wider
/// than it, or none.
fn mem_for(rng: &mut TestRng, rule: Option<PropRule>) -> Option<MemAccess> {
    let kind = if rng.gen_bool(0.5) {
        MemAccessKind::Read
    } else {
        MemAccessKind::Write
    };
    let (a, l) = rule
        .and_then(rule_range)
        .unwrap_or_else(|| (addr(rng), len(rng)));
    let (addr, len) = match rng.gen_range(0..7u8) {
        0 => return None,
        1 | 2 => (a, l),
        3 => (a.wrapping_add(rng.gen_range(1..64u32)), l),
        4 => (
            a.saturating_add(rng.gen_range(0..2u32)),
            l.saturating_sub(rng.gen_range(0..3u32)),
        ),
        5 => (a, rng.gen_range(0..=l.min(6))),
        _ => (
            a.saturating_sub(rng.gen_range(0..8u32)),
            l.saturating_add(rng.gen_range(0..16u32)),
        ),
    };
    Some(MemAccess { addr, len, kind })
}

fn arbitrary_event(rng: &mut TestRng) -> Event {
    let mut ev = Event::empty(rng.gen_range(0..0x100u32));
    match rng.gen_range(0..12u8) {
        0 => {
            ev.source = Some(SourceInput {
                kind: [SourceKind::File, SourceKind::Socket, SourceKind::UserInput]
                    [rng.gen_range(0..3usize)],
                addr: addr(rng),
                len: len(rng),
                trusted: rng.gen_bool(0.2),
            });
        }
        1 => {
            ev.ctrl = Some(if rng.gen_bool(0.5) {
                CtrlCheck::Reg {
                    reg: reg(rng) as u8,
                    target: rng.gen(),
                }
            } else {
                CtrlCheck::Mem {
                    addr: addr(rng),
                    len: len(rng),
                    target: rng.gen(),
                }
            });
        }
        2 => {
            ev.sink = Some(SinkAccess {
                kind: if rng.gen_bool(0.5) {
                    SinkKind::Socket
                } else {
                    SinkKind::File
                },
                addr: addr(rng),
                len: len(rng),
            });
        }
        _ => {}
    }
    if rng.gen_bool(0.85) {
        ev.prop = Some(rule(rng));
    }
    if rng.gen_bool(0.2) {
        ev.prop2 = Some(rule(rng));
    }
    ev.mem = mem_for(rng, ev.prop.or(ev.prop2));
    // Screening metadata that agrees with the rules, disagrees with
    // them, or is missing.
    ev.regs = match rng.gen_range(0..4u8) {
        0 | 1 => ev.prop.map(rule_regs).unwrap_or_default(),
        2 => RegsUsed::new(
            [
                Some(reg(rng) as u8),
                rng.gen_bool(0.5).then(|| reg(rng) as u8),
            ],
            rng.gen_bool(0.5).then(|| reg(rng) as u8),
        ),
        _ => RegsUsed::default(),
    };
    ev
}

/// Batches of arbitrary events, one to 40 events each.
struct Batches;

impl Strategy for Batches {
    type Value = Vec<Vec<Event>>;

    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (0..rng.gen_range(1..12usize))
            .map(|_| {
                (0..rng.gen_range(1..40usize))
                    .map(|_| arbitrary_event(rng))
                    .collect()
            })
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn gated_apply_matches_the_full_path(
        batches in Batches,
        scrub_interval in prop_oneof![Just(0u64), Just(1u64), 2u64..24],
    ) {
        assert_gate_matches_full_path(&batches, scrub_interval, "arbitrary events");
    }
}
