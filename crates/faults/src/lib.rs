//! Deterministic fault injection for the LATCH pipeline.
//!
//! A [`FaultPlan`] describes *what* can go wrong — coarse-state bit
//! flips in the CTC/CTT, queue faults (drop / duplicate / reorder) at
//! the producer→consumer FIFO boundary, consumer slowdowns, and
//! consumer death — and a [`FaultInjector`] decides *when*, as a pure
//! function of `(seed, stream, index)`. No wall-clock time or global
//! RNG state is involved: replaying the same plan against the same
//! event stream yields bit-identical fault schedules, which is what
//! lets the oracle harness compare faulty runs against golden runs.
//!
//! The injector deliberately does not know how faults are *applied*;
//! the pipeline layers (latch-core scrubbing, the platch systems) own
//! that, keeping this crate dependency-free and cycle-free.

/// Stateless mixer: SplitMix64 finalizer over `(seed, stream, index)`.
///
/// Each fault stream gets an independent, reproducible decision
/// sequence; querying the same index twice gives the same answer
/// regardless of call order, so producer and consumer threads can both
/// consult the plan without coordination.
#[must_use]
pub fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Identifies an independent decision sequence within one plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
pub enum Stream {
    CoarseFlip = 1,
    FlipTarget = 2,
    FlipDirection = 3,
    FlipBit = 4,
    FlipSlot = 5,
    QueueDrop = 6,
    QueueDup = 7,
    QueueReorder = 8,
    ConsumerLag = 9,
    DiskTorn = 12,
    DiskTornByte = 13,
    DiskBitRot = 14,
    DiskBitRotByte = 15,
    DiskTruncate = 16,
    DiskTruncateByte = 17,
    FsyncFail = 18,
    BurstArrival = 19,
    BurstFactor = 20,
    SlowClient = 21,
    NodeDeath = 25,
}

/// Which coarse structure a bit flip lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlipTarget {
    /// A cached line in the coarse taint cache.
    Ctc,
    /// A word in the in-memory coarse taint table.
    Ctt,
}

/// Direction of an injected coarse-bit flip.
///
/// `SpuriousSet` (0→1) only costs precision; `SpuriousClear` (1→0) is
/// the dangerous direction — unrepaired, it would let tainted traffic
/// pass unchecked, violating the no-false-negative contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlipDirection {
    SpuriousSet,
    SpuriousClear,
}

/// Configures coarse-state corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoarseFlipConfig {
    /// Probability per screened event, in parts per mille (0..=1000).
    pub per_mille: u32,
    /// Restrict flips to one structure, or `None` for both.
    pub target: Option<FlipTarget>,
    /// Restrict flips to one direction, or `None` for both.
    pub direction: Option<FlipDirection>,
}

impl CoarseFlipConfig {
    /// No coarse flips.
    pub const OFF: Self = Self {
        per_mille: 0,
        target: None,
        direction: None,
    };
}

/// Configures faults at the FIFO boundary, in parts per mille per
/// enqueued event. Drop wins over duplicate, duplicate over reorder,
/// when several fire on the same sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFaultConfig {
    pub drop_per_mille: u32,
    pub dup_per_mille: u32,
    pub reorder_per_mille: u32,
}

impl QueueFaultConfig {
    /// No queue faults.
    pub const OFF: Self = Self {
        drop_per_mille: 0,
        dup_per_mille: 0,
        reorder_per_mille: 0,
    };
}

/// Configures consumer-side faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConsumerFaultConfig {
    /// Probability per processed event of a stall, in parts per mille.
    pub lag_per_mille: u32,
    /// Stall length when one fires, in busy-loop units (deterministic
    /// pipelines count these; threaded consumers sleep ~that many µs).
    pub lag_units: u32,
    /// Kill the consumer after it has processed exactly this many
    /// events (first life only; restarted consumers run to completion).
    pub die_after_events: Option<u64>,
}

impl ConsumerFaultConfig {
    /// A healthy consumer.
    pub const OFF: Self = Self {
        lag_per_mille: 0,
        lag_units: 0,
        die_after_events: None,
    };
}

/// Configures storage faults (the durability layer): torn writes on
/// crash, silent bit rot at rest, short reads, and failed fsyncs. All
/// rates are per storage *operation*, in parts per mille, and each
/// decision is pure in `(seed, stream, op_index)` — a crash image
/// rebuilt from the same op log tears the same write at the same byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskFaultConfig {
    /// Probability that an un-synced append is torn at a crash, keeping
    /// only a strict prefix of the written bytes.
    pub torn_per_mille: u32,
    /// Probability that a read returns one flipped bit.
    pub bitrot_per_mille: u32,
    /// Probability that a read returns a strict prefix of the file.
    pub truncated_read_per_mille: u32,
    /// Probability that an fsync reports failure (data not durable).
    pub fsync_fail_per_mille: u32,
}

impl DiskFaultConfig {
    /// A healthy disk.
    pub const OFF: Self = Self {
        torn_per_mille: 0,
        bitrot_per_mille: 0,
        truncated_read_per_mille: 0,
        fsync_fail_per_mille: 0,
    };
}

/// Configures overload faults (the `latch-serve` layer): bursty
/// arrival (a submission round offers a multiple of its normal load)
/// and slow clients (a round trickles events in instead of its full
/// chunk). Rates are per round, in parts per mille, and every decision
/// is pure in `(seed, stream, index)` — reruns shed identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverloadFaultConfig {
    /// Probability per submission round of a burst.
    pub burst_per_mille: u32,
    /// Load multiplier applied to a bursting round (≥ 2 when armed).
    pub burst_factor: u32,
    /// Probability per submission round that a client goes slow and
    /// trickles instead of submitting its full chunk.
    pub slow_per_mille: u32,
}

impl OverloadFaultConfig {
    /// No overload faults.
    pub const OFF: Self = Self {
        burst_per_mille: 0,
        burst_factor: 0,
        slow_per_mille: 0,
    };
}

/// Configures cluster-node faults (the `latch-router` layer): whole
/// `latchd` nodes killed mid-stream, forcing the router to fail their
/// sessions over. Decisions are per `(node, round)`, pure in the seed,
/// and bounded by a kill budget so a sweep cannot kill every node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeFaultConfig {
    /// Probability per `(node, round)` that the node is killed.
    pub kill_per_mille: u32,
    /// Most kills one injector will ever report (0 disarms).
    pub max_kills: u32,
}

impl NodeFaultConfig {
    /// No node faults.
    pub const OFF: Self = Self {
        kill_per_mille: 0,
        max_kills: 0,
    };
}

/// A complete, seeded description of the faults to inject into one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    pub seed: u64,
    pub coarse: CoarseFlipConfig,
    pub queue: QueueFaultConfig,
    pub consumer: ConsumerFaultConfig,
    pub disk: DiskFaultConfig,
    pub overload: OverloadFaultConfig,
    pub node: NodeFaultConfig,
}

impl FaultPlan {
    /// A plan that injects nothing (the golden-run control).
    #[must_use]
    pub fn benign() -> Self {
        Self {
            seed: 0,
            coarse: CoarseFlipConfig::OFF,
            queue: QueueFaultConfig::OFF,
            consumer: ConsumerFaultConfig::OFF,
            disk: DiskFaultConfig::OFF,
            overload: OverloadFaultConfig::OFF,
            node: NodeFaultConfig::OFF,
        }
    }

    /// Starts an empty plan with a seed; chain `with_*` to arm faults.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ..Self::benign()
        }
    }

    /// Arms coarse-state bit flips.
    #[must_use]
    pub fn with_coarse_flips(
        mut self,
        per_mille: u32,
        target: Option<FlipTarget>,
        direction: Option<FlipDirection>,
    ) -> Self {
        assert!(per_mille <= 1000, "per_mille out of range");
        self.coarse = CoarseFlipConfig {
            per_mille,
            target,
            direction,
        };
        self
    }

    /// Arms queue faults.
    #[must_use]
    pub fn with_queue_faults(mut self, drop: u32, dup: u32, reorder: u32) -> Self {
        assert!(
            drop <= 1000 && dup <= 1000 && reorder <= 1000,
            "per_mille out of range"
        );
        self.queue = QueueFaultConfig {
            drop_per_mille: drop,
            dup_per_mille: dup,
            reorder_per_mille: reorder,
        };
        self
    }

    /// Arms consumer stalls.
    #[must_use]
    pub fn with_consumer_lag(mut self, per_mille: u32, units: u32) -> Self {
        assert!(per_mille <= 1000, "per_mille out of range");
        self.consumer.lag_per_mille = per_mille;
        self.consumer.lag_units = units;
        self
    }

    /// Arms consumer death after `events` processed events.
    #[must_use]
    pub fn with_consumer_death(mut self, events: u64) -> Self {
        self.consumer.die_after_events = Some(events);
        self
    }

    /// Arms storage faults: torn writes at crash points, bit rot and
    /// short reads on the read path, and fsync failures.
    #[must_use]
    pub fn with_disk_faults(
        mut self,
        torn: u32,
        bitrot: u32,
        truncated_read: u32,
        fsync_fail: u32,
    ) -> Self {
        assert!(
            torn <= 1000 && bitrot <= 1000 && truncated_read <= 1000 && fsync_fail <= 1000,
            "per_mille out of range"
        );
        self.disk = DiskFaultConfig {
            torn_per_mille: torn,
            bitrot_per_mille: bitrot,
            truncated_read_per_mille: truncated_read,
            fsync_fail_per_mille: fsync_fail,
        };
        self
    }

    /// Arms overload arrival faults: bursty rounds (offered load
    /// multiplied by `burst_factor`) and slow-client rounds (clients
    /// trickle instead of submitting their full chunk).
    #[must_use]
    pub fn with_overload(mut self, burst_per_mille: u32, burst_factor: u32, slow_per_mille: u32) -> Self {
        assert!(
            burst_per_mille <= 1000 && slow_per_mille <= 1000,
            "per_mille out of range"
        );
        self.overload.burst_per_mille = burst_per_mille;
        self.overload.burst_factor = burst_factor.max(2);
        self.overload.slow_per_mille = slow_per_mille;
        self
    }

    /// Arms cluster-node kills: each `(node, round)` pair may kill the
    /// node, up to `max_kills` kills per injector.
    #[must_use]
    pub fn with_node_kills(mut self, kill_per_mille: u32, max_kills: u32) -> Self {
        assert!(kill_per_mille <= 1000, "per_mille out of range");
        self.node = NodeFaultConfig {
            kill_per_mille,
            max_kills,
        };
        self
    }

    /// Whether the plan injects anything at all.
    #[must_use]
    pub fn is_benign(&self) -> bool {
        self.coarse == CoarseFlipConfig::OFF
            && self.queue == QueueFaultConfig::OFF
            && self.consumer == ConsumerFaultConfig::OFF
            && self.disk == DiskFaultConfig::OFF
            && self.overload == OverloadFaultConfig::OFF
            && self.node == NodeFaultConfig::OFF
    }
}

/// A concrete coarse-flip decision for one event index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoarseFlip {
    pub target: FlipTarget,
    pub direction: FlipDirection,
    /// Bit position within the 32-bit coarse word.
    pub bit: u32,
    /// Raw selector; the applier reduces it modulo the CTC way count
    /// or the populated-CTT-word count to pick a victim.
    pub slot: u64,
}

/// A concrete queue-fault decision for one sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueFault {
    None,
    /// The event never reaches the consumer.
    Drop,
    /// The event is delivered twice.
    Duplicate,
    /// The event is delayed behind its successor (pairwise swap).
    Reorder,
}

/// Running counters of what was actually injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    pub coarse_flips: u64,
    pub spurious_sets: u64,
    pub spurious_clears: u64,
    pub drops: u64,
    pub dups: u64,
    pub reorders: u64,
    pub lags: u64,
    pub deaths: u64,
    pub torn_writes: u64,
    pub bitrots: u64,
    pub truncated_reads: u64,
    pub fsync_failures: u64,
    pub bursts: u64,
    pub slow_rounds: u64,
    pub node_kills: u64,
}

impl FaultStats {
    /// Field-wise accumulation, for merging per-thread injector stats
    /// into one run-level total.
    pub fn merge(&mut self, other: FaultStats) {
        self.coarse_flips += other.coarse_flips;
        self.spurious_sets += other.spurious_sets;
        self.spurious_clears += other.spurious_clears;
        self.drops += other.drops;
        self.dups += other.dups;
        self.reorders += other.reorders;
        self.lags += other.lags;
        self.deaths += other.deaths;
        self.torn_writes += other.torn_writes;
        self.bitrots += other.bitrots;
        self.truncated_reads += other.truncated_reads;
        self.fsync_failures += other.fsync_failures;
        self.bursts += other.bursts;
        self.slow_rounds += other.slow_rounds;
        self.node_kills += other.node_kills;
    }
}

/// Evaluates a [`FaultPlan`] against event/sequence indices, counting
/// what fires. Decisions are pure in `(plan.seed, stream, index)`;
/// the stats are the only mutable state.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    stats: FaultStats,
}

fn fires(seed: u64, stream: Stream, index: u64, per_mille: u32) -> bool {
    per_mille > 0 && mix(seed, stream as u64, index) % 1000 < u64::from(per_mille)
}

impl FaultInjector {
    /// Wraps a plan.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            stats: FaultStats::default(),
        }
    }

    /// The wrapped plan.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Injection counters so far.
    #[must_use]
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Decides whether (and how) to corrupt coarse state at screened
    /// event `index`.
    pub fn coarse_flip_at(&mut self, index: u64) -> Option<CoarseFlip> {
        let seed = self.plan.seed;
        if !fires(seed, Stream::CoarseFlip, index, self.plan.coarse.per_mille) {
            return None;
        }
        let target = self.plan.coarse.target.unwrap_or({
            if mix(seed, Stream::FlipTarget as u64, index) & 1 == 0 {
                FlipTarget::Ctc
            } else {
                FlipTarget::Ctt
            }
        });
        let direction = self.plan.coarse.direction.unwrap_or({
            if mix(seed, Stream::FlipDirection as u64, index) & 1 == 0 {
                FlipDirection::SpuriousSet
            } else {
                FlipDirection::SpuriousClear
            }
        });
        self.stats.coarse_flips += 1;
        match direction {
            FlipDirection::SpuriousSet => self.stats.spurious_sets += 1,
            FlipDirection::SpuriousClear => self.stats.spurious_clears += 1,
        }
        Some(CoarseFlip {
            target,
            direction,
            bit: (mix(seed, Stream::FlipBit as u64, index) % 32) as u32,
            slot: mix(seed, Stream::FlipSlot as u64, index),
        })
    }

    /// Decides the queue fault (if any) for sequence number `seq`.
    pub fn queue_fault_at(&mut self, seq: u64) -> QueueFault {
        let seed = self.plan.seed;
        let q = self.plan.queue;
        if fires(seed, Stream::QueueDrop, seq, q.drop_per_mille) {
            self.stats.drops += 1;
            QueueFault::Drop
        } else if fires(seed, Stream::QueueDup, seq, q.dup_per_mille) {
            self.stats.dups += 1;
            QueueFault::Duplicate
        } else if fires(seed, Stream::QueueReorder, seq, q.reorder_per_mille) {
            self.stats.reorders += 1;
            QueueFault::Reorder
        } else {
            QueueFault::None
        }
    }

    /// Stall length (in lag units) before processing event `index`,
    /// or 0 when no stall fires.
    pub fn consumer_lag_at(&mut self, index: u64) -> u32 {
        let c = self.plan.consumer;
        if fires(self.plan.seed, Stream::ConsumerLag, index, c.lag_per_mille) {
            self.stats.lags += 1;
            c.lag_units
        } else {
            0
        }
    }

    /// Whether an un-synced append is torn at a crash, and if so how
    /// many of its `len` bytes survive (a strict prefix, `0..len`).
    /// `op` is the storage operation's position in the op log.
    pub fn disk_torn_at(&mut self, op: u64, len: usize) -> Option<usize> {
        if len == 0
            || !fires(
                self.plan.seed,
                Stream::DiskTorn,
                op,
                self.plan.disk.torn_per_mille,
            )
        {
            return None;
        }
        self.stats.torn_writes += 1;
        let keep = mix(self.plan.seed, Stream::DiskTornByte as u64, op) % len as u64;
        Some(keep as usize)
    }

    /// Whether a read of `len` bytes comes back with one flipped bit:
    /// `(byte_offset, xor_mask)` with a guaranteed-nonzero mask.
    pub fn disk_bitrot_at(&mut self, op: u64, len: usize) -> Option<(usize, u8)> {
        if len == 0
            || !fires(
                self.plan.seed,
                Stream::DiskBitRot,
                op,
                self.plan.disk.bitrot_per_mille,
            )
        {
            return None;
        }
        self.stats.bitrots += 1;
        let r = mix(self.plan.seed, Stream::DiskBitRotByte as u64, op);
        let offset = (r % len as u64) as usize;
        let mask = 1u8 << ((r >> 32) % 8);
        Some((offset, mask))
    }

    /// Whether a read of `len` bytes comes back short, and if so how
    /// many bytes it returns (a strict prefix, `0..len`).
    pub fn disk_truncated_read_at(&mut self, op: u64, len: usize) -> Option<usize> {
        if len == 0
            || !fires(
                self.plan.seed,
                Stream::DiskTruncate,
                op,
                self.plan.disk.truncated_read_per_mille,
            )
        {
            return None;
        }
        self.stats.truncated_reads += 1;
        let keep = mix(self.plan.seed, Stream::DiskTruncateByte as u64, op) % len as u64;
        Some(keep as usize)
    }

    /// Whether the fsync issued as operation `op` reports failure.
    pub fn disk_fsync_fails(&mut self, op: u64) -> bool {
        if fires(
            self.plan.seed,
            Stream::FsyncFail,
            op,
            self.plan.disk.fsync_fail_per_mille,
        ) {
            self.stats.fsync_failures += 1;
            true
        } else {
            false
        }
    }

    /// Whether submission round `round` is a burst, and if so the load
    /// multiplier the arrival harness applies to the round's chunk.
    pub fn burst_factor_at(&mut self, round: u64) -> Option<u32> {
        let o = self.plan.overload;
        if !fires(self.plan.seed, Stream::BurstArrival, round, o.burst_per_mille) {
            return None;
        }
        self.stats.bursts += 1;
        // Vary the factor per burst: 2..=burst_factor, pure in the round.
        let span = u64::from(o.burst_factor.max(2) - 1);
        let f = 2 + mix(self.plan.seed, Stream::BurstFactor as u64, round) % span;
        Some(f as u32)
    }

    /// Whether the client submitting in round `round` goes slow and
    /// trickles a minimal chunk instead of its full one.
    pub fn slow_client_at(&mut self, round: u64) -> bool {
        let o = self.plan.overload;
        if fires(self.plan.seed, Stream::SlowClient, round, o.slow_per_mille) {
            self.stats.slow_rounds += 1;
            true
        } else {
            false
        }
    }

    /// Folds a node id into a round index so each node gets an
    /// independent decision sequence from one stream.
    fn node_index(node: u32, round: u64) -> u64 {
        round.wrapping_mul(8).wrapping_add(u64::from(node & 7))
    }

    /// Whether cluster node `node` is killed at submission round
    /// `round`. Kills beyond the plan's budget never fire, so a sweep
    /// always leaves at least `nodes - max_kills` nodes standing.
    pub fn node_killed_at(&mut self, node: u32, round: u64) -> bool {
        let n = self.plan.node;
        if self.stats.node_kills >= u64::from(n.max_kills) {
            return false;
        }
        let idx = Self::node_index(node, round);
        if fires(self.plan.seed, Stream::NodeDeath, idx, n.kill_per_mille) {
            self.stats.node_kills += 1;
            true
        } else {
            false
        }
    }

    /// Whether the consumer's first life ends once it has processed
    /// `events_processed` events.
    pub fn consumer_dies_now(&mut self, events_processed: u64) -> bool {
        if self.plan.consumer.die_after_events == Some(events_processed) {
            self.stats.deaths += 1;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_pure_and_stream_separated() {
        assert_eq!(mix(1, 2, 3), mix(1, 2, 3));
        assert_ne!(mix(1, 2, 3), mix(1, 2, 4));
        assert_ne!(mix(1, 2, 3), mix(1, 3, 3));
        assert_ne!(mix(1, 2, 3), mix(2, 2, 3));
    }

    #[test]
    fn benign_plan_never_fires() {
        let mut inj = FaultInjector::new(FaultPlan::benign());
        for i in 0..10_000 {
            assert_eq!(inj.coarse_flip_at(i), None);
            assert_eq!(inj.queue_fault_at(i), QueueFault::None);
            assert_eq!(inj.consumer_lag_at(i), 0);
            assert!(!inj.consumer_dies_now(i));
        }
        assert_eq!(inj.stats(), FaultStats::default());
    }

    #[test]
    fn decisions_are_deterministic_and_order_independent() {
        let plan = FaultPlan::new(42)
            .with_coarse_flips(50, None, None)
            .with_queue_faults(20, 20, 20);
        let mut a = FaultInjector::new(plan);
        let mut b = FaultInjector::new(plan);
        let fwd: Vec<_> = (0..2000).map(|i| (a.coarse_flip_at(i), a.queue_fault_at(i))).collect();
        let rev: Vec<_> = (0..2000)
            .rev()
            .map(|i| (b.coarse_flip_at(i), b.queue_fault_at(i)))
            .collect();
        let rev_fwd: Vec<_> = rev.into_iter().rev().collect();
        assert_eq!(fwd, rev_fwd, "same index must give same decision");
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn fault_rates_track_per_mille() {
        let plan = FaultPlan::new(7).with_queue_faults(100, 0, 0);
        let mut inj = FaultInjector::new(plan);
        let n = 100_000;
        let drops = (0..n)
            .filter(|&i| inj.queue_fault_at(i) == QueueFault::Drop)
            .count();
        // 10% nominal; allow generous slack for the cheap mixer.
        assert!((8_000..12_000).contains(&drops), "drops={drops}");
        assert_eq!(inj.stats().drops, drops as u64);
    }

    #[test]
    fn direction_and_target_restrictions_hold() {
        let plan = FaultPlan::new(3).with_coarse_flips(
            200,
            Some(FlipTarget::Ctt),
            Some(FlipDirection::SpuriousClear),
        );
        let mut inj = FaultInjector::new(plan);
        let mut saw = 0;
        for i in 0..10_000 {
            if let Some(flip) = inj.coarse_flip_at(i) {
                assert_eq!(flip.target, FlipTarget::Ctt);
                assert_eq!(flip.direction, FlipDirection::SpuriousClear);
                assert!(flip.bit < 32);
                saw += 1;
            }
        }
        assert!(saw > 0);
        assert_eq!(inj.stats().spurious_sets, 0);
        assert_eq!(inj.stats().spurious_clears, saw);
    }

    #[test]
    fn queue_fault_priority_is_stable() {
        // With all three armed at full rate, drop always wins.
        let plan = FaultPlan::new(9).with_queue_faults(1000, 1000, 1000);
        let mut inj = FaultInjector::new(plan);
        for i in 0..100 {
            assert_eq!(inj.queue_fault_at(i), QueueFault::Drop);
        }
    }

    #[test]
    fn disk_faults_are_deterministic_and_in_range() {
        let plan = FaultPlan::new(33).with_disk_faults(200, 200, 200, 200);
        assert!(!plan.is_benign());
        let mut a = FaultInjector::new(plan);
        let mut b = FaultInjector::new(plan);
        for op in 0..5_000 {
            let torn = a.disk_torn_at(op, 100);
            assert_eq!(torn, b.disk_torn_at(op, 100));
            if let Some(keep) = torn {
                assert!(keep < 100, "torn write keeps a strict prefix");
            }
            let rot = a.disk_bitrot_at(op, 64);
            assert_eq!(rot, b.disk_bitrot_at(op, 64));
            if let Some((off, mask)) = rot {
                assert!(off < 64);
                assert_ne!(mask, 0, "a zero mask would be a silent no-op");
                assert!(mask.is_power_of_two(), "exactly one flipped bit");
            }
            let short = a.disk_truncated_read_at(op, 32);
            assert_eq!(short, b.disk_truncated_read_at(op, 32));
            if let Some(keep) = short {
                assert!(keep < 32);
            }
            assert_eq!(a.disk_fsync_fails(op), b.disk_fsync_fails(op));
        }
        let stats = a.stats();
        assert!(stats.torn_writes > 0);
        assert!(stats.bitrots > 0);
        assert!(stats.truncated_reads > 0);
        assert!(stats.fsync_failures > 0);
        assert_eq!(stats, b.stats());
    }

    #[test]
    fn disk_faults_never_fire_when_off_or_empty() {
        let mut inj = FaultInjector::new(FaultPlan::benign());
        for op in 0..1_000 {
            assert_eq!(inj.disk_torn_at(op, 100), None);
            assert_eq!(inj.disk_bitrot_at(op, 100), None);
            assert_eq!(inj.disk_truncated_read_at(op, 100), None);
            assert!(!inj.disk_fsync_fails(op));
        }
        let mut armed = FaultInjector::new(FaultPlan::new(5).with_disk_faults(1000, 1000, 1000, 0));
        assert_eq!(armed.disk_torn_at(0, 0), None, "empty write cannot tear");
        assert_eq!(armed.disk_bitrot_at(0, 0), None);
        assert_eq!(armed.disk_truncated_read_at(0, 0), None);
    }

    #[test]
    fn overload_faults_are_deterministic_and_in_range() {
        let plan = FaultPlan::new(55).with_overload(150, 6, 100);
        assert!(!plan.is_benign());
        let mut a = FaultInjector::new(plan);
        let mut b = FaultInjector::new(plan);
        for round in 0..5_000 {
            let burst = a.burst_factor_at(round);
            assert_eq!(burst, b.burst_factor_at(round));
            if let Some(f) = burst {
                assert!((2..=6).contains(&f), "burst factor in range, got {f}");
            }
            assert_eq!(a.slow_client_at(round), b.slow_client_at(round));
        }
        let stats = a.stats();
        assert!(stats.bursts > 0);
        assert!(stats.slow_rounds > 0);
        assert_eq!(stats, b.stats());
    }

    #[test]
    fn per_node_decisions_are_independent() {
        // The same round must give independent decisions per node, so
        // one node's kill says nothing about another's.
        let plan = FaultPlan::new(77).with_node_kills(500, u32::MAX);
        let mut inj = FaultInjector::new(plan);
        let per_node: Vec<Vec<bool>> = (0..3)
            .map(|n| (0..2_000).map(|i| inj.node_killed_at(n, i)).collect())
            .collect();
        assert_ne!(per_node[0], per_node[1]);
        assert_ne!(per_node[1], per_node[2]);
    }

    #[test]
    fn overload_faults_never_fire_when_off() {
        let mut inj = FaultInjector::new(FaultPlan::benign());
        for i in 0..2_000 {
            assert_eq!(inj.burst_factor_at(i), None);
            assert!(!inj.slow_client_at(i));
        }
        assert_eq!(inj.stats(), FaultStats::default());
    }

    #[test]
    fn consumer_death_fires_once_at_threshold() {
        let plan = FaultPlan::new(1).with_consumer_death(500);
        let mut inj = FaultInjector::new(plan);
        assert!(!inj.consumer_dies_now(499));
        assert!(inj.consumer_dies_now(500));
        assert!(!inj.consumer_dies_now(501));
        assert_eq!(inj.stats().deaths, 1);
    }
}
